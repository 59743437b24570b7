"""The result store: concurrent writers, eviction races, corrupt files.

One store, :class:`LocalDirStore`, holds every record; these tests pin
that it stays safe when threads write one record at once, race an
eviction pass, or meet a file that is not a record.
"""

import json
import sys
import threading
import time

from repro.runner.api import resolve_config
from repro.runner.cache import ResultCache, cache_key
from repro.runner.record import RunRecord
from repro.serve.eviction import enforce_budget
from repro.serve.store import LocalDirStore


def make_record(config, payload="x") -> RunRecord:
    return RunRecord(
        exp_id=config.exp_id,
        title="test",
        paper_tables="-",
        cache_key=cache_key(config),
        config=config.to_jsonable(),
        elapsed_seconds=0.01,
        checks=[["shape", True, payload]],
        rendered=payload,
        summary={"kind": "scalars", "data": {"payload": payload}},
    )


class TestLocalDirStore:
    def test_read_missing_returns_none(self, tmp_path):
        store = LocalDirStore(tmp_path)
        assert store.read("nope.json") is None
        assert store.open("nope.json") is None
        assert store.delete("nope.json") is False


class TestConcurrentWriters:
    def test_two_writers_never_tear_a_record(self, tmp_path):
        """N threads rewriting one name: readers only ever see valid
        JSON equal to one complete write (atomic os.replace), and no
        writer fails: each thread publishes through its own temp file."""
        store = LocalDirStore(tmp_path)
        payloads = [
            json.dumps({"writer": i, "fill": "z" * 2000}).encode("utf-8")
            for i in range(4)
        ]
        stop = threading.Event()
        torn = []
        errors = []

        def writer(data):
            try:
                while not stop.is_set():
                    store.write("contended.json", data)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            while not stop.is_set():
                raw = store.read("contended.json")
                if raw is None:
                    continue
                try:
                    doc = json.loads(raw.decode("utf-8"))
                except json.JSONDecodeError:
                    torn.append(raw[:40])
                    return
                if raw not in payloads:
                    torn.append(raw[:40])
                    return
                assert "writer" in doc

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            time.sleep(0.5)
            stop.set()
            for t in threads:
                t.join(5)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, f"a writer failed: {errors!r}"
        assert not torn, f"reader observed a torn record: {torn}"
        assert store.read("contended.json") in payloads
        # No temp droppings left behind.
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_loads_racing_stores_never_serve_a_replaced_record(self, tmp_path):
        """Readers going through the record memo while one writer keeps
        replacing the record with same-sized ones, whose files reuse
        freed inode numbers: the writer's own load after each store is
        the record it just stored. (A reader that bumped the mtime by
        path could stamp its bump on a newer file at a reused inode, and
        the memo then served the older record.)"""
        cache = ResultCache(tmp_path)
        config = resolve_config("validation")
        key = cache_key(config)
        records = [make_record(config, payload=f"v{i}") for i in range(10)]
        cache.store(records[0])
        stop = threading.Event()
        errors, stale = [], []

        def reader():
            try:
                while not stop.is_set():
                    assert cache.load_jsonable("validation", key) is not None
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.time() + 1.5
            stored = 0
            while time.time() < deadline:
                stored += 1
                record = records[stored % len(records)]
                cache.store(record)
                loaded = cache.load_jsonable("validation", key)["rendered"]
                if loaded != record.rendered:
                    stale.append((record.rendered, loaded))
        finally:
            stop.set()
            for thread in threads:
                thread.join(5)
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not stale, f"{len(stale)} stale loads of {stored}: {stale[:3]}"

    def test_store_while_evict(self, tmp_path):
        """Writers racing an eviction pass: no exceptions, budget
        enforced, and listings never crash on vanishing files."""
        cache = ResultCache(tmp_path)
        configs = [
            resolve_config("validation", {"seed": seed})
            for seed in range(1, 7)
        ]
        errors = []
        stop = threading.Event()

        def writer():
            try:
                while not stop.is_set():
                    for config in configs:
                        cache.store(make_record(config))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def evictor():
            try:
                while not stop.is_set():
                    enforce_budget(cache, budget_bytes=1)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def lister():
            try:
                while not stop.is_set():
                    cache.index()
                    cache.total_bytes()
                    list(cache.entries())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=evictor),
            threading.Thread(target=lister),
        ]
        for t in threads:
            t.start()
        time.sleep(0.6)
        stop.set()
        for t in threads:
            t.join(5)
        assert not errors, errors
        report = enforce_budget(cache, budget_bytes=1)
        assert report.bytes_after <= 1

    def test_corrupt_file_tolerance(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = resolve_config("validation")
        cache.store(make_record(config))
        (tmp_path / "garbage-0123456789abcdef.json").write_text("{not json")
        # load of the good record still works; listings mark the
        # garbage stale instead of crashing.
        assert cache.load(config) is not None
        index = cache.index()
        assert len(index) == 2
        assert any(entry.stale for entry in index)
        # Eviction reclaims the corrupt bytes first.
        good_bytes = next(e.bytes for e in index if not e.stale)
        report = enforce_budget(cache, budget_bytes=good_bytes)
        assert report.stale_evicted == 1
        assert cache.load(config) is not None
