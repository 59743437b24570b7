"""Tests for the content-addressed on-disk result cache."""

import json

from repro.core.experiments import EXPERIMENTS
from repro.runner.cache import ResultCache, cache_key
from repro.runner.record import RECORD_SCHEMA, RunRecord


def _record(key: str, exp_id: str = "gauss") -> RunRecord:
    return RunRecord(
        exp_id=exp_id,
        title="t",
        paper_tables="p",
        cache_key=key,
        config={"exp_id": exp_id},
        elapsed_seconds=1.5,
        checks=[["a check", True, "fine"]],
        rendered="table",
        summary={"kind": "scalars", "data": {"x": 1.0}},
    )


def test_cache_key_is_stable_and_content_addressed():
    config = EXPERIMENTS["gauss"].config
    assert cache_key(config) == cache_key(config)
    # Any config change moves the address (invalidation on change).
    assert cache_key(config) != cache_key(config.with_overrides({"seed": 7}))
    assert cache_key(config) != cache_key(config.with_overrides({"procs": 4}))
    assert cache_key(config) != cache_key(
        config.with_overrides({"app": {"n": 96}})
    )
    # Different experiments never collide.
    assert cache_key(config) != cache_key(EXPERIMENTS["mse"].config)


def test_store_load_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    record = _record(cache_key(config))
    cache.store(record)
    loaded = cache.load(config)
    assert loaded is not None
    assert loaded.cached is True
    assert loaded.checks == record.checks
    assert loaded.summary == record.summary
    assert loaded.rendered == record.rendered


def test_load_jsonable_is_the_records_jsonable(tmp_path):
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    key = cache_key(config)
    record = _record(key)
    cache.store(record)
    assert cache.load_jsonable("gauss", key) == record.to_jsonable()
    assert cache.load_jsonable("gauss", "0" * 64) is None


def test_load_jsonable_reads_an_older_layout_like_a_record(tmp_path):
    """A record stored before some fields existed (or with one since
    retired) reads exactly as a RunRecord round trip gives it."""
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    key = cache_key(config)
    path = cache.store(_record(key))
    data = json.loads(path.read_text())
    del data["preset"], data["trace_path"]
    data["retired"] = 1
    path.write_text(json.dumps(data))
    assert cache.load_jsonable("gauss", key) == _record(key).to_jsonable()


def test_miss_on_config_change(tmp_path):
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    cache.store(_record(cache_key(config)))
    assert cache.load(config.with_overrides({"app": {"n": 64}})) is None


def test_miss_on_schema_change(tmp_path):
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    record = _record(cache_key(config))
    path = cache.store(record)
    data = json.loads(path.read_text())
    data["schema"] = RECORD_SCHEMA + 1
    path.write_text(json.dumps(data))
    assert cache.load(config) is None


def test_corrupt_file_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    path = cache.store(_record(cache_key(config)))
    path.write_text("{not json")
    assert cache.load(config) is None


def test_ls_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.ls() == []
    cache.store(_record(cache_key(EXPERIMENTS["gauss"].config), "gauss"))
    cache.store(_record(cache_key(EXPERIMENTS["mse"].config), "mse"))
    lines = cache.ls()
    assert len(lines) == 2
    assert any("gauss" in line for line in lines)
    assert cache.clear() == 2
    assert cache.ls() == []
    assert cache.clear() == 0


def test_env_var_controls_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert ResultCache().directory == tmp_path / "elsewhere"
