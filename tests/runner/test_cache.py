"""Tests for the content-addressed on-disk result cache."""

import json
import os

import pytest

from repro.core.experiments import EXPERIMENTS
from repro.runner import cache as cache_module
from repro.runner.cache import CODE_SALT, ResultCache, cache_key
from repro.runner.record import RECORD_SCHEMA, RunRecord
from repro.serve.store import OpenBlob


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


#: Every registered experiment's cache key. A change here re-keys every
#: user's cache, so change these pins only together with a CODE_SALT bump.
REGISTERED_KEYS = {
    "mse": "5483d769c198b3930ef89207177478845322bf4b28b66052f49be0113f8fb83f",
    "gauss": "5369f69135ee5bae0cc6dd164713a6c6a7e38c61be1535b7d6f7a53762ff371e",
    "gauss_collectives": "aff3600a2b0f1633c829893ee2a350b6b12ccdd00d15f7150c04cfee7d299c0b",
    "gauss_contention": "618659db5f9df15dfba62573f8dc2169d487a7d7e762fd5dd3d6256663633a94",
    "em3d": "d64a469b8a578fec5721f6fd3f1ba91950cc0cbdadc4c2fbaf51de4d434a134d",
    "em3d_bigcache": "2eb2bb7e19beb89cdc3fd7d9b482841a8d4e5becda00635336622caa7c3ee0e7",
    "em3d_localalloc": "e97021a6e86118db5f235e47ae0551d626255f1a0ba0a0a4ffaf45e3d50e8805",
    "em3d_protocols": "ea918ebef589736386375a79cc6a9171c3a103b26f8962a1c0912bc086d4f1ca",
    "lcp": "2b51915ca06e60dbe77251ff9ca680b3ac71ded068e502a2a27c04352c762694",
    "alcp": "55a2b84b42290d4cc42e74585e1b29f86046063c1b9387c1c1e16cd364ccf2b5",
    "validation": "8aaa6e46eaf6012eb6832181918e400f8b556e43ef09719765caab968c908f69",
}


def test_registered_cache_keys_are_pinned():
    """Moving code (the app config classes, the registry's imports) must
    not re-key users' caches: keys hash the config's content and class
    name, never its module."""
    assert CODE_SALT == "repro-runner-v5"
    keys = {exp_id: cache_key(spec.config) for exp_id, spec in EXPERIMENTS.items()}
    assert keys == REGISTERED_KEYS


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


@pytest.fixture
def record_reads(monkeypatch):
    """One entry per record file the cache reads and parses."""
    reads = []
    read = OpenBlob.read

    def counting(blob):
        reads.append(blob.identity)
        return read(blob)

    monkeypatch.setattr(OpenBlob, "read", counting)
    return reads


def test_repeated_loads_of_an_unchanged_file_read_it_once(tmp_path, record_reads):
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    record = _record(cache_key(config))
    cache.store(record)
    for _ in range(5):
        assert cache.load_jsonable("gauss", record.cache_key) == record.to_jsonable()
        assert cache.load(config).summary == record.summary
    assert len(record_reads) == 1


def test_a_record_stored_again_is_read_again(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key(EXPERIMENTS["gauss"].config)
    cache.store(_record(key))
    assert cache.load_jsonable("gauss", key)["rendered"] == "table"
    replaced = _record(key)
    replaced.rendered = "replaced"
    cache.store(replaced)
    assert cache.load_jsonable("gauss", key)["rendered"] == "replaced"


def test_a_file_rewritten_in_place_is_read_again(tmp_path, record_reads):
    """Another writer rewriting the file in place, same size and inode,
    is seen by its new mtime."""
    cache = ResultCache(tmp_path)
    key = cache_key(EXPERIMENTS["gauss"].config)
    path = cache.store(_record(key))
    assert cache.load_jsonable("gauss", key)["rendered"] == "table"
    inode, size, mtime_ns = (path.stat().st_ino, path.stat().st_size,
                             path.stat().st_mtime_ns)
    path.write_text(path.read_text().replace('"table"', '"TABLE"'))
    os.utime(path, ns=(mtime_ns + 10**9, mtime_ns + 10**9))
    assert (path.stat().st_ino, path.stat().st_size) == (inode, size)
    assert cache.load_jsonable("gauss", key)["rendered"] == "TABLE"
    assert len(record_reads) == 2


def test_a_deleted_file_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key(EXPERIMENTS["gauss"].config)
    path = cache.store(_record(key))
    assert cache.load_jsonable("gauss", key) is not None
    path.unlink()
    assert cache.load_jsonable("gauss", key) is None


def test_the_record_memo_is_bounded(tmp_path, monkeypatch, record_reads):
    monkeypatch.setattr(cache_module, "RECORD_MEMO_SIZE", 4)
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    records = [_record(cache_key(config.with_overrides({"seed": seed})))
               for seed in range(10)]
    for record in records:
        record.rendered = record.cache_key
        cache.store(record)
    for _ in range(2):
        for record in records:
            loaded = cache.load_jsonable("gauss", record.cache_key)
            assert loaded == record.to_jsonable()
            assert len(cache._memo) <= 4
    assert len(record_reads) == 20  # each pass evicts what the next needs
    for record in records[-4:]:
        assert cache.load_jsonable("gauss", record.cache_key)["rendered"] == record.cache_key
    assert len(record_reads) == 20  # the last four stay in memory


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


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
def test_a_file_that_is_not_a_json_object_is_a_miss(tmp_path, text):
    cache = ResultCache(tmp_path)
    config = EXPERIMENTS["gauss"].config
    path = cache.store(_record(cache_key(config)))
    path.write_text(text)
    assert cache.load(config) is None
    assert cache.load_jsonable("gauss", cache_key(config)) is None


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


def test_ls_lists_an_orphan_trace(tmp_path):
    """A trace whose record is gone is an entry of its own, so the
    listing's lines match its totals."""
    cache = ResultCache(tmp_path)
    cache.store(_record(cache_key(EXPERIMENTS["gauss"].config)))
    (tmp_path / "traces").mkdir()
    (tmp_path / "traces" / "mse-5483d769c198b393.json").write_text("{}")
    lines = cache.ls()
    assert len(lines) == cache.stats()["records"] == 2
    (orphan,) = [line for line in lines if "traces/" in line]
    assert orphan.startswith("mse ")
    assert "salt:stale" in orphan
    assert orphan.endswith("traces/mse-5483d769c198b393.json")


def test_record_whose_trace_path_points_outside_still_hits(tmp_path):
    """A record stored when ``trace_path`` could name any file (a
    relative ``--out``) still loads as a hit, and the cache serves no
    trace for it."""
    cache = ResultCache(tmp_path / "cache")
    config = EXPERIMENTS["gauss"].config
    record = _record(cache_key(config))
    record.trace_path = "t.json"
    cache.store(record)
    (tmp_path / "t.json").write_text('{"traceEvents": []}')
    loaded = cache.load(config)
    assert loaded is not None and loaded.cached
    assert loaded.trace_path == "t.json"
    assert cache.load_trace("gauss", record.cache_key) is None


def test_env_var_controls_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert ResultCache().directory == tmp_path / "elsewhere"
