"""Cache size accounting and byte-budget eviction policy."""

import json
import os
import time

import pytest

from repro.runner.api import resolve_config
from repro.runner.cache import ResultCache, cache_key
from repro.runner.record import RunRecord
from repro.serve.eviction import enforce_budget, parse_bytes


def store_record(cache, seed, payload_bytes=0, mtime=None, stale=False):
    """One record with a controllable size, age, and salt freshness."""
    config = resolve_config("validation", {"seed": seed})
    record = RunRecord(
        exp_id="validation",
        title="test",
        paper_tables="-",
        cache_key=cache_key(config),
        config=config.to_jsonable(),
        elapsed_seconds=0.01,
        checks=[["shape", True, "ok"]],
        rendered="#" * payload_bytes,
        summary={"kind": "scalars", "data": {}},
    )
    path = cache.store(record)
    if stale:
        # Rewrite the stored key: it can no longer match a key recomputed
        # from the config under the current salt — exactly what a
        # CODE_SALT bump leaves behind.
        data = json.loads(path.read_text())
        data["cache_key"] = "0" * 64
        path.write_text(json.dumps(data))
    if mtime is not None:
        os.utime(path, (mtime, mtime))
    return config, path


def store_traced(cache, seed, trace_bytes=20000, mtime=None):
    """A record stored with a trace of about ``trace_bytes`` bytes."""
    config, path = store_record(cache, seed)
    trace = {"traceEvents": [], "pad": "#" * trace_bytes}
    cache.store(cache.load(config), trace=trace)
    if mtime is not None:
        os.utime(path, (mtime, mtime))
    return config, path


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestAccounting:
    def test_index_reports_bytes_mtime_staleness(self, cache):
        now = time.time()
        _, fresh_path = store_record(cache, seed=1, mtime=now - 50)
        _, stale_path = store_record(cache, seed=2, mtime=now - 10, stale=True)
        entries = {entry.path: entry for entry in cache.index()}
        assert entries[fresh_path].stale is False
        assert entries[stale_path].stale is True
        assert entries[fresh_path].bytes == fresh_path.stat().st_size
        assert [e.path for e in cache.index()] == [fresh_path, stale_path]

    def test_stats_totals(self, cache):
        store_record(cache, seed=1)
        store_record(cache, seed=2, stale=True)
        stats = cache.stats()
        assert stats["records"] == 2
        assert stats["stale_records"] == 1
        assert stats["bytes"] == cache.total_bytes() > 0

    def test_corrupt_file_counts_as_stale(self, cache):
        cache.directory.mkdir(parents=True)
        bad = cache.directory / "garbage-0000.json"
        bad.write_text("{not json")
        entries = cache.index()
        assert len(entries) == 1 and entries[0].stale is True

    def test_load_bumps_mtime(self, cache):
        config, path = store_record(cache, seed=1, mtime=time.time() - 500)
        before = path.stat().st_mtime
        assert cache.load(config) is not None
        assert path.stat().st_mtime > before

    def test_consecutive_hits_each_bump_mtime(self, cache):
        """The second hit is served from memory and still counts as a use."""
        config, path = store_record(cache, seed=1, mtime=time.time() - 500)
        before = path.stat().st_mtime_ns
        assert cache.load(config) is not None
        first = path.stat().st_mtime_ns
        time.sleep(0.01)
        assert cache.load(config) is not None
        assert before < first < path.stat().st_mtime_ns


class TestEnforceBudget:
    def test_under_budget_is_a_noop(self, cache):
        store_record(cache, seed=1)
        report = enforce_budget(cache, budget_bytes=10**9)
        assert report.evicted == []
        assert report.bytes_before == report.bytes_after

    def test_evicts_oldest_mtime_first(self, cache):
        now = time.time()
        _, old = store_record(cache, seed=1, payload_bytes=4000, mtime=now - 300)
        _, mid = store_record(cache, seed=2, payload_bytes=4000, mtime=now - 200)
        _, new = store_record(cache, seed=3, payload_bytes=4000, mtime=now - 100)
        budget = mid.stat().st_size + new.stat().st_size
        report = enforce_budget(cache, budget_bytes=budget)
        assert report.evicted == [old.name]
        assert not old.exists() and mid.exists() and new.exists()
        assert cache.total_bytes() <= budget

    def test_stale_salt_records_evict_before_fresh_older_ones(self, cache):
        now = time.time()
        # The stale record is the *youngest* — eviction must still take
        # it before any fresh record.
        _, fresh_old = store_record(
            cache, seed=1, payload_bytes=4000, mtime=now - 300
        )
        _, fresh_new = store_record(
            cache, seed=2, payload_bytes=4000, mtime=now - 200
        )
        _, stale_new = store_record(
            cache, seed=3, payload_bytes=4000, mtime=now - 10, stale=True
        )
        budget = fresh_old.stat().st_size + fresh_new.stat().st_size
        report = enforce_budget(cache, budget_bytes=budget)
        assert report.evicted == [stale_new.name]
        assert report.stale_evicted == 1
        assert fresh_old.exists() and fresh_new.exists()

    def test_hot_records_survive(self, cache):
        now = time.time()
        config_a, path_a = store_record(
            cache, seed=1, payload_bytes=4000, mtime=now - 300
        )
        _, path_b = store_record(
            cache, seed=2, payload_bytes=4000, mtime=now - 200
        )
        _, path_c = store_record(
            cache, seed=3, payload_bytes=4000, mtime=now - 100
        )
        # A is oldest on disk but hot: a cache hit bumps its mtime,
        # so eviction takes B (now the least recently used) instead.
        assert cache.load(config_a) is not None
        budget = path_a.stat().st_size + path_c.stat().st_size
        report = enforce_budget(cache, budget_bytes=budget)
        assert path_a.exists(), "hot record must survive eviction"
        assert not path_b.exists()
        assert path_b.name in report.evicted

    def test_evicts_down_to_budget_across_many(self, cache):
        now = time.time()
        paths = [
            store_record(cache, seed=s, payload_bytes=2000, mtime=now - 100 * s)[1]
            for s in range(1, 7)
        ]
        one = paths[0].stat().st_size
        report = enforce_budget(cache, budget_bytes=2 * one)
        assert cache.total_bytes() <= 2 * one
        survivors = [p for p in paths if p.exists()]
        # The two youngest (smallest age multiplier) survive.
        assert survivors == [paths[0], paths[1]]
        assert report.evicted_count == 4


class TestTraces:
    """A record and its trace are one entry: sized, evicted together."""

    def test_budget_below_one_traced_record_evicts_record_and_trace(self, cache):
        _, path = store_traced(cache, seed=1)
        report = enforce_budget(cache, budget_bytes=path.stat().st_size)
        assert report.evicted == [path.name]
        assert [p for p in cache.directory.rglob("*") if p.is_file()] == []

    def test_total_bytes_counts_trace_bytes(self, cache):
        _, path = store_traced(cache, seed=1, trace_bytes=20000)
        files = list(cache.directory.rglob("*.json"))
        assert len(files) == 2
        total = sum(p.stat().st_size for p in files)
        assert cache.total_bytes() == total > path.stat().st_size + 20000

    def test_orphan_trace_is_stale_and_evicted_first(self, cache):
        now = time.time()
        _, old = store_record(cache, seed=1, payload_bytes=4000, mtime=now - 300)
        _, gone = store_traced(cache, seed=2, mtime=now - 10)
        gone.unlink()  # a record deleted behind the cache's back
        (orphan,) = [entry for entry in cache.index() if entry.record is None]
        assert orphan.stale and orphan.path.name == gone.name
        report = enforce_budget(cache, budget_bytes=old.stat().st_size)
        assert report.evicted == [gone.name]
        assert report.stale_evicted == 1
        assert [p for p in cache.directory.rglob("*") if p.is_file()] == [old]


class TestParseBytes:
    @pytest.mark.parametrize(
        "text,expected",
        [
            (None, None),
            ("", None),
            ("1024", 1024),
            ("64K", 64 * 1024),
            ("64k", 64 * 1024),
            ("32M", 32 * 1024**2),
            ("32MB", 32 * 1024**2),
            ("1.5G", int(1.5 * 1024**3)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_bytes(text) == expected

    @pytest.mark.parametrize("text", ["lots", "-5", "64T", "M"])
    def test_invalid(self, text):
        with pytest.raises(ValueError, match="byte budget"):
            parse_bytes(text)


class TestCacheLsCli:
    def test_ls_reports_per_record_bytes_and_total(self, cache, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache.directory))
        store_record(cache, seed=1, payload_bytes=1000)
        store_record(cache, seed=2, stale=True)
        from repro.cli import main

        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        total = cache.total_bytes()
        assert f"{total} bytes total" in out
        assert "1 stale-salt" in out
        assert "salt:fresh" in out and "salt:stale" in out
        # Every record line carries its own byte size.
        sizes = [entry.bytes for entry in cache.index()]
        for size in sizes:
            assert f"{size:8d}B" in out
