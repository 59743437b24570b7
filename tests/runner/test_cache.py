"""Tests for the content-addressed on-disk result cache."""

import json

from repro.core.experiments import EXPERIMENTS
from repro.runner.cache import CODE_SALT, ResultCache, cache_key
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


#: Every registered experiment's cache key. A change here re-keys every
#: user's cache, so change these pins only together with a CODE_SALT bump.
REGISTERED_KEYS = {
    "mse": "c673ddfd0ebdeee3a0b7fc1faf76c943fabc344bfe1cc5aff1d37bda9cd5a7a2",
    "gauss": "094e55a59c98099fa63c5342b993023f940cbeae05d6b80a8dbdd655adc65fae",
    "gauss_collectives": "66aab78461791378b9893e048977ecc94127876833410b45922ec3ef18199fe1",
    "gauss_contention": "1c26793cd39f8bfcd12922b9361f92c5ab05afe06e79892158c2d80f7e84995f",
    "em3d": "75c17e58fc7c5b042e0ca4489461ea53a82e82818f8bd53b6dbb3a897e9cfe99",
    "em3d_bigcache": "bcc77cd6662c5cbb12c20d55f47b3b1e916efda578f1b396ffe85e100b7102d3",
    "em3d_localalloc": "d7605702e2809b8cf9cb236bd9deab41e05362f62cc303cbb207c5677af17785",
    "em3d_protocols": "bc84d2636b6bd32e4843d18c5d363d3b8a577ea33c9de0c38e12c03158341960",
    "lcp": "d796373f3ea5aa1f18eb02724d7ba43202cd454e37dde071a9be01f95fd30f63",
    "alcp": "26dbb235cd0ace2837fb6342e27fe0bdd9df9a6fe8a9a7b861ec55ffd4a60677",
    "validation": "d633e7d5abc409d08b1b4ce5b9edb31aa785d19be99baa4fba57ea558a315d54",
}


def test_registered_cache_keys_are_pinned():
    """Moving code (the app config classes, the registry's imports) must
    not re-key users' caches: keys hash the config's content and class
    name, never its module."""
    assert CODE_SALT == "repro-runner-v4"
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
