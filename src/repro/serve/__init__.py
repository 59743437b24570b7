"""``repro serve``: the harness as a long-running HTTP service.

The simulator becomes a backend: clients ``POST`` experiment and sweep
requests, get content-hash job IDs derived from the result cache's
keys, and poll (or long-poll) for results. It is a service for one
host: identical uncached requests coalesce into one simulation;
identical cached requests are answered from the content-addressed
store in milliseconds; the store is safe under concurrent writers and
bounded by a byte budget with stale-salt-first LRU eviction; a bounded
queue answers overload with ``429`` + ``Retry-After`` instead of
falling over. See ``docs/serve.md`` and :mod:`repro.serve.server`.

>>> from repro import api
>>> server = api.serve(port=0, block=False)   # ephemeral port, background
>>> server.url
'http://127.0.0.1:...'
>>> server.stop()
"""

from repro.serve.admission import AdmissionError
from repro.serve.coalesce import CoalescingRegistry
from repro.serve.eviction import EvictionReport, enforce_budget, parse_bytes
from repro.serve.jobqueue import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    Job,
    JobQueue,
    QueueShutdown,
    inprocess_run_executor,
    subprocess_run_executor,
)
from repro.serve.schemas import (
    RunRequest,
    SchemaError,
    SweepRequest,
    parse_run_request,
    parse_sweep_request,
)
from repro.serve.server import ReproServer
from repro.serve.store import BlobStat, LocalDirStore

__all__ = [
    "DONE",
    "FAILED",
    "PENDING",
    "RUNNING",
    "AdmissionError",
    "BlobStat",
    "CoalescingRegistry",
    "EvictionReport",
    "Job",
    "JobQueue",
    "LocalDirStore",
    "QueueShutdown",
    "ReproServer",
    "RunRequest",
    "SchemaError",
    "SweepRequest",
    "enforce_budget",
    "inprocess_run_executor",
    "parse_bytes",
    "parse_run_request",
    "parse_sweep_request",
    "subprocess_run_executor",
]
