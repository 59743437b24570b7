"""The repro.api facade: blessed surface, stability, deprecations."""

import pytest

from repro import api


def test_facade_exports_the_blessed_surface():
    for name in ("resolve_config", "run_raw", "record_for", "execute",
                 "sweep", "clear_memory_cache", "ResultCache", "RunRecord",
                 "ExperimentConfig", "SweepSpec", "SweepResult", "get_sweep"):
        assert name in api.__all__
        assert hasattr(api, name)


def test_facade_all_is_accurate():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_facade_functions_are_the_canonical_ones():
    from repro.runner import api as runner_api

    assert api.run_raw is runner_api.run_raw
    assert api.record_for is runner_api.record_for
    assert api.execute is runner_api.execute
    assert api.resolve_config is runner_api.resolve_config


def test_facade_run_raw_works():
    api.clear_memory_cache()
    result = api.run_raw("validation")
    assert result is api.run_raw("validation")
    api.clear_memory_cache()


def test_facade_sweep_accepts_spec_name(monkeypatch, tmp_path):
    from repro.core import experiments
    from repro.runner.cache import ResultCache
    from repro.runner.config import ExperimentConfig
    from repro.specs import library
    from tests.sweep.test_cli_sweep import put_sweep_spec

    exp = experiments.ExperimentSpec(
        id="fake_facade", title="f", paper_tables="none", description="d",
        runner=lambda config: {"value": float(config.procs)},
        config=ExperimentConfig(exp_id="fake_facade"),
        shape=lambda r: [("ran", True, "ok")], paper={},
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_facade", exp)
    monkeypatch.setitem(
        library.EXTRA_METRICS, "facade-value", {"value": lambda s: s["data"]["value"]}
    )
    put_sweep_spec(monkeypatch, tmp_path, """\
kind: sweep
id: facade-tiny
experiment: fake_facade
axes:
  - {axis: procs, values: [1, 2]}
metrics: [value]
extra_metrics: facade-value
""")

    api.clear_memory_cache()
    result = api.sweep("facade-tiny", jobs=1, cache=ResultCache(tmp_path))
    assert result.series("value") == ([1, 2], [1.0, 2.0])
    # Axis replacement flows through the facade too.
    narrowed = api.sweep("facade-tiny", axes={"procs": (2,)}, jobs=1,
                         cache=ResultCache(tmp_path))
    assert narrowed.series("value") == ([2], [2.0])
    api.clear_memory_cache()


def test_facade_sweep_refuses_a_second_axis_on_a_checked_spec(tmp_path):
    from repro.runner.cache import ResultCache

    with pytest.raises(ValueError, match="has checks, which need a one-axis sweep"):
        api.sweep("em3d-latency", axes={"procs": (2, 4)}, jobs=1,
                  cache=ResultCache(tmp_path / "c"))
    assert not (tmp_path / "c").exists()


def test_facade_sweep_unknown_name():
    with pytest.raises(ValueError, match="unknown sweep"):
        api.sweep("definitely-not-a-sweep")


def test_facade_serve_refuses_an_unusable_cache_directory(tmp_path):
    from repro.runner.cache import CacheDirectoryError, ResultCache

    (tmp_path / "afile").write_text("")
    cache = ResultCache(tmp_path / "afile" / "cache")
    with pytest.raises(CacheDirectoryError, match="afile/cache is unusable"):
        api.serve(port=0, block=False, cache=cache, quiet=True)
