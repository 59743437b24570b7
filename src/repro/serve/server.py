"""The ``repro serve`` HTTP service (stdlib-only, threaded).

A :class:`ReproServer` is a ``ThreadingHTTPServer`` front end over a
:class:`~repro.serve.jobqueue.JobQueue`: HTTP threads only parse,
validate, and consult the registry/cache. Every job, run or sweep, is
one library call in a spawned worker process (the queue's
``executor``), which simulates and stores the records, so the service
stays responsive while experiments run.

Endpoints (all JSON)::

    POST /v1/runs             submit an experiment run   -> job envelope
    POST /v1/sweeps           submit a sensitivity sweep -> job envelope
    GET  /v1/jobs/<id>        poll one job               -> job envelope
    GET  /v1/jobs/<id>?wait=S long-poll: block up to S seconds for a
                              terminal state, then answer (no busy loop)
    GET  /v1/jobs             list known jobs            -> {"jobs": [...]}
    GET  /v1/experiments      list runnable experiments  -> {"experiments": [...]}
    GET  /v1/specs            list YAML experiment/sweep specs -> {"specs": [...]}
    GET  /healthz             liveness + queue/cache stats

Submission responses carry the full job envelope immediately: a warm
request (already cached) arrives with ``state: "done"``,
``simulated: false`` and the record inline — zero simulation, suitable
for millisecond-latency polling loops. Status codes: ``200`` for
finished jobs and reads, ``202`` for accepted-but-not-finished
submissions, ``400`` for invalid bodies (message in ``{"error": ...}``),
``404`` for unknown jobs/paths, ``429`` + ``Retry-After`` when the
cold-job queue is full, ``503`` while shutting down.

Keep-alive discipline: the handler speaks HTTP/1.1 with persistent
connections, so *every* request's body is consumed (or the connection
is marked close) before the response — including early-exit error
paths — otherwise the unread body would be parsed as the next request
on the same connection (request desync). Every connection also sets
``TCP_NODELAY``, so a warm read on a persistent connection takes about
two milliseconds instead of waiting out the client's ~40 ms delayed
ACK.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.runner.cache import ResultCache
from repro.serve.admission import AdmissionError
from repro.serve.jobqueue import DONE, JobQueue, QueueShutdown
from repro.serve.schemas import (
    SchemaError,
    parse_run_request,
    parse_sweep_request,
)

#: Largest accepted request body; runs/sweep submissions are tiny.
MAX_BODY_BYTES = 1 << 20

#: Largest body worth draining to keep a connection alive; anything
#: bigger is cheaper to answer-and-close than to read-and-discard.
MAX_DRAIN_BYTES = MAX_BODY_BYTES * 8

#: Ceiling on ``GET /v1/jobs/<id>?wait=S`` (seconds).
MAX_LONGPOLL_SECONDS = 60.0


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ReproServer`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Send at once (TCP_NODELAY on every accepted connection): under
    # Nagle's algorithm a response's body segment waits for the
    # client's delayed ACK of its header segment, ~40 ms per keep-alive
    # request on Linux.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    @property
    def repro(self) -> "ReproServer":
        return self.server.repro_server  # type: ignore[attr-defined]

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            # We are going to drop the connection (undrained body);
            # say so instead of silently hanging up on a keep-alive
            # client.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _content_length(self) -> int:
        try:
            return int(self.headers.get("Content-Length") or 0)
        except (TypeError, ValueError):
            return 0

    def _discard_body(self) -> None:
        """Consume an unread request body so keep-alive stays in sync.

        Replying without reading the body would leave it in the socket
        buffer, where it gets parsed as the *next* request on this
        persistent connection (HTTP desync). Bodies too large to be
        worth draining — and chunked bodies, which this server never
        dechunks — force the connection closed instead.
        """
        if self._body_consumed:
            return
        self._body_consumed = True
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            self.close_connection = True
            return
        remaining = self._content_length()
        if remaining <= 0:
            return
        if remaining > MAX_DRAIN_BYTES:
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    def _read_json_body(self) -> Any:
        length = self._content_length()
        if length <= 0:
            raise SchemaError("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            # Leave the body unread; _discard_body decides whether the
            # connection survives.
            raise SchemaError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        self._body_consumed = True
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"request body is not valid JSON: {exc}") from exc

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        self.repro.log(f"{self.address_string()} {format % args}")

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._body_consumed = False
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        try:
            self._route_get(path, query)
        finally:
            # A GET with a body is unusual but legal; stay in sync.
            self._discard_body()

    def _route_get(self, path: str, query: Dict[str, list]) -> None:
        if path == "/healthz":
            self._send_json(200, self.repro.health())
            return
        if path == "/v1/experiments":
            self._send_json(200, self.repro.experiments())
            return
        if path == "/v1/specs":
            self._send_json(200, self.repro.specs())
            return
        if path == "/v1/jobs":
            jobs = self.repro.queue.registry.jobs()
            self._send_json(
                200,
                {"jobs": [job.to_jsonable(include_result=False)
                          for job in jobs]},
            )
            return
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            job = self.repro.queue.registry.get(job_id)
            if job is None:
                self._send_json(404, {"error": f"unknown job {job_id!r}"})
                return
            try:
                wait = min(
                    max(0.0, float(query.get("wait", ["0"])[0])),
                    MAX_LONGPOLL_SECONDS,
                )
            except (TypeError, ValueError):
                self._send_json(
                    400, {"error": "wait= must be a number of seconds"}
                )
                return
            if wait > 0:
                # Long-poll: ride the job's done_event instead of
                # making the client busy-poll.
                job.wait(wait)
            self._send_json(200, job.to_jsonable())
            return
        self._send_json(404, {"error": f"unknown path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._body_consumed = False
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if path == "/v1/runs":
                request = parse_run_request(self._read_json_body())
                job = self.repro.queue.submit_run(request)
            elif path == "/v1/sweeps":
                request = parse_sweep_request(self._read_json_body())
                job = self.repro.queue.submit_sweep(request)
            else:
                self._discard_body()
                self._send_json(404, {"error": f"unknown path {path!r}"})
                return
        except SchemaError as exc:
            self._discard_body()
            self._send_json(400, {"error": str(exc)})
            return
        except AdmissionError as exc:
            self._discard_body()
            self._send_json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": exc.retry_after_header},
            )
            return
        except QueueShutdown as exc:
            self._discard_body()
            self._send_json(
                503, {"error": str(exc)}, headers={"Retry-After": "5"}
            )
            return
        self._send_json(200 if job.state == DONE else 202, job.to_jsonable())


class _HTTPServer(ThreadingHTTPServer):
    """One handler thread per connection; a client hanging up is a log
    line, not a traceback.

    A keep-alive client may close or reset its connection at any time,
    most often while its handler waits for the next request. The stdlib
    prints a traceback to stderr for that, even for a ``quiet`` server.
    """

    daemon_threads = True

    def handle_error(self, request: Any, client_address: Any) -> None:
        error = sys.exc_info()[1]
        if isinstance(error, ConnectionError):
            self.repro_server.log(  # type: ignore[attr-defined]
                f"{client_address[0]} hung up: {error!r}"
            )
            return
        super().handle_error(request, client_address)


class ReproServer:
    """The long-running service: HTTP front end + job queue + cache."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8737,
        jobs: int = 2,
        cache: Optional[ResultCache] = None,
        cache_budget_bytes: Optional[int] = None,
        executor=None,
        max_pending: Optional[int] = 64,
        retention_seconds: Optional[float] = 3600.0,
        max_terminal_jobs: Optional[int] = 1024,
        quiet: bool = False,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        # Refuse an unusable cache directory before binding the port,
        # not in a worker after the first cold job has simulated.
        self.cache.check_directory()
        self.queue = JobQueue(
            workers=jobs,
            cache=self.cache,
            cache_budget_bytes=cache_budget_bytes,
            executor=executor,
            max_pending=max_pending,
            retention_seconds=retention_seconds,
            max_terminal=max_terminal_jobs,
        )
        self.quiet = quiet
        self.started_at = time.time()
        self.httpd = _HTTPServer((host, port), _Handler)
        self.httpd.repro_server = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- addresses ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` ephemerals."""
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle ---------------------------------------------------------

    def log(self, message: str) -> None:
        if not self.quiet:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S")
            print(f"[{stamp}] {message}", file=sys.stderr, flush=True)

    def start(self) -> None:
        """Serve in a background thread (programmatic/tests)."""
        self.queue.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        self.log(f"repro serve listening on {self.url}")

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path); Ctrl-C stops."""
        self.queue.start()
        self.log(
            f"repro serve listening on {self.url} "
            f"({self.queue.workers} workers, "
            f"cache {self.cache.directory}"
            + (
                f", budget {self.queue.cache_budget_bytes} bytes"
                if self.queue.cache_budget_bytes is not None
                else ""
            )
            + ")"
        )
        try:
            self.httpd.serve_forever()
        finally:
            self.stop()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.queue.stop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.log("repro serve stopped")

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- endpoint payloads -------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document: uptime, queue, cache, heartbeat."""
        from repro import __version__

        now = time.time()
        return {
            "status": "ok",
            "version": __version__,
            "heartbeat": now,
            "started_at": self.started_at,
            "uptime_seconds": round(now - self.started_at, 3),
            "replica": {"pid": os.getpid(), "url": self.url},
            "admission": {"max_pending": self.queue.max_pending},
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
        }

    def experiments(self) -> Dict[str, Any]:
        from repro.core.experiments import EXPERIMENTS

        return {
            "experiments": [
                {
                    "id": exp_id,
                    "title": spec.title,
                    "paper_tables": spec.paper_tables,
                }
                for exp_id, spec in EXPERIMENTS.items()
            ]
        }

    def specs(self) -> Dict[str, Any]:
        """The YAML scenario layer, as listing metadata (``/v1/specs``).

        A broken spec file on the search path becomes a row with an
        ``error`` field rather than a 500: the listing is a discovery
        surface and must stay answerable while someone edits a spec.
        """
        from dataclasses import asdict

        from repro.specs import SpecError, list_specs

        try:
            rows = [asdict(info) for info in list_specs()]
        except SpecError as exc:
            return {"specs": [], "error": str(exc)}
        return {"specs": rows}
