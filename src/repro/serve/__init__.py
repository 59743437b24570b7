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

The package re-exports nothing: import from the defining module, so
the result cache, which needs only :mod:`repro.serve.store`, never
loads the server.

>>> from repro import api
>>> server = api.serve(port=0, block=False)   # ephemeral port, background
>>> server.url
'http://127.0.0.1:...'
>>> server.stop()
"""
