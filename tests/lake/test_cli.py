"""`repro lake` / `repro query` / `repro sweep --glob`: exit codes, plumbing."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.core import experiments
from repro.lake import RunLake
from repro.runner.api import clear_memory_cache
from repro.runner.config import ExperimentConfig


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memory_cache()
    yield
    clear_memory_cache()


@pytest.fixture
def fake_exp(monkeypatch):
    """A registered experiment that runs instantly."""

    def runner(config):
        return {"value": 10.0 * config.procs}

    exp = experiments.ExperimentSpec(
        id="fake_lake", title="f", paper_tables="none", description="d",
        runner=runner, config=ExperimentConfig(exp_id="fake_lake"),
        shape=lambda r: [("ran", True, "ok")], paper={},
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_lake", exp)
    return exp


# ---------------------------------------------------------------------------
# repro run --lake / repro lake
# ---------------------------------------------------------------------------


def test_run_lake_ingests(fake_exp, tmp_path, capsys):
    lake_path = tmp_path / "l.sqlite"
    assert main(["run", "fake_lake", "--lake",
                 "--lake-path", str(lake_path)]) == 0
    assert "1 new of 1 record(s) ingested" in capsys.readouterr().err
    with RunLake(lake_path) as lake:
        assert lake.counts()["runs"] == 1


def test_lake_ingest_backfills_warm_cache_idempotently(fake_exp, tmp_path, capsys):
    lake_path = str(tmp_path / "l.sqlite")
    assert main(["run", "fake_lake"]) == 0  # warms the result cache
    capsys.readouterr()
    assert main(["lake", "ingest", "--lake-path", lake_path]) == 0
    assert "ingested 1 new of 1" in capsys.readouterr().out
    assert main(["lake", "ingest", "--lake-path", lake_path]) == 0
    assert "ingested 0 new of 1" in capsys.readouterr().out


def test_lake_stats_missing_file_exits_1(tmp_path, capsys):
    assert main(["lake", "stats",
                 "--lake-path", str(tmp_path / "none.sqlite")]) == 1
    assert "no lake at" in capsys.readouterr().err


def test_lake_stats_json_to_stdout(fake_exp, tmp_path, capsys):
    lake_path = str(tmp_path / "l.sqlite")
    assert main(["run", "fake_lake", "--lake", "--lake-path", lake_path]) == 0
    capsys.readouterr()
    assert main(["lake", "stats", "--lake-path", lake_path,
                 "--json", "-"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["runs"] == 1
    assert stats["fresh_runs"] == 1


# ---------------------------------------------------------------------------
# repro query
# ---------------------------------------------------------------------------


def test_query_missing_lake_exits_1(tmp_path, capsys):
    assert main(["query", "--lake-path", str(tmp_path / "none.sqlite")]) == 1
    assert "no lake at" in capsys.readouterr().err


def test_query_unknown_app_exits_2(capsys):
    assert main(["query", "--app", "em3dd"]) == 2
    assert "did you mean 'em3d'" in capsys.readouterr().err


def test_query_unknown_metric_exits_2(fake_exp, tmp_path, capsys):
    lake_path = str(tmp_path / "l.sqlite")
    assert main(["run", "fake_lake", "--lake", "--lake-path", lake_path]) == 0
    assert main(["query", "--lake-path", lake_path,
                 "--metrics", "sm_over_mpp"]) == 2
    assert "did you mean 'sm_over_mp'" in capsys.readouterr().err


def test_query_json_row_count_and_footer(fake_exp, tmp_path, capsys):
    lake_path = str(tmp_path / "l.sqlite")
    assert main(["run", "fake_lake", "--lake", "--lake-path", lake_path]) == 0
    capsys.readouterr()
    assert main(["query", "--lake-path", lake_path, "--json", "-"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["exp_id"] == "fake_lake"
    assert rows[0]["fresh"] is True
    assert main(["query", "--lake-path", lake_path]) == 0
    out = capsys.readouterr().out
    assert "1 row(s)" in out
    assert "stale-salt rows hidden" in out


def test_query_pivot_unknown_column_exits_2(fake_exp, tmp_path, capsys):
    lake_path = str(tmp_path / "l.sqlite")
    assert main(["run", "fake_lake", "--lake", "--lake-path", lake_path]) == 0
    assert main(["query", "--lake-path", lake_path,
                 "--pivot", "presett"]) == 2
    assert "cannot pivot on" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro sweep --glob
# ---------------------------------------------------------------------------

TINY_GLOB_SWEEP = textwrap.dedent(
    """\
    kind: sweep
    id: {id}
    experiment: em3d
    description: tiny glob spec
    base_overrides: {{procs: 2, app: {{nodes_per_proc: 8, degree: 2, iterations: 2}}}}
    axes:
      - axis: net_latency
        values: [{values}]
    metrics: [mp_total, sm_total]
    """
)


def test_sweep_requires_exactly_one_of_spec_or_glob(capsys):
    assert main(["sweep"]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["sweep", "em3d-latency", "--glob", "x*.yaml"]) == 2


def test_sweep_glob_no_match_exits_2(capsys):
    assert main(["sweep", "--glob", "specs/sweeps/zzz-nothing-*.yaml"]) == 2
    assert "matched no" in capsys.readouterr().err


def test_sweep_glob_batch_runs_lake_and_suffixed_artifacts(tmp_path, capsys):
    sweeps_dir = tmp_path / "sweeps"
    sweeps_dir.mkdir()
    (sweeps_dir / "glob-a.yaml").write_text(
        TINY_GLOB_SWEEP.format(id="glob-a", values="0, 50")
    )
    (sweeps_dir / "glob-b.yaml").write_text(
        TINY_GLOB_SWEEP.format(id="glob-b", values="0, 100")
    )
    lake_path = tmp_path / "l.sqlite"
    json_path = tmp_path / "out.json"
    assert main(["sweep", "--glob", str(sweeps_dir / "glob-*.yaml"),
                 "--jobs", "1", "--lake", "--lake-path", str(lake_path),
                 "--json", str(json_path)]) == 0
    # Multi-spec exports get the spec name suffixed into the filename.
    for name in ("glob-a", "glob-b"):
        payload = json.loads((tmp_path / f"out-{name}.json").read_text())
        assert payload["spec_name"] == name
        assert len(payload["points"]) == 2
    with RunLake(lake_path) as lake:
        counts = lake.counts()
    # The two grids share the latency-0 point, so three unique runs.
    assert counts["runs"] == 3


def test_sweep_lake_lands_the_point_records_without_a_cache(tmp_path, capsys):
    """--lake ingests the point records the sweep delivered, so it works
    under --no-cache too; the lake holds runs, no sweep tables."""
    from repro.runner.cache import ResultCache

    spec_path = tmp_path / "tiny.yaml"
    spec_path.write_text(TINY_GLOB_SWEEP.format(id="tiny", values="0, 50"))
    lake_path = tmp_path / "l.sqlite"
    assert main(["sweep", str(spec_path), "--jobs", "1", "--no-cache",
                 "--lake", "--lake-path", str(lake_path)]) == 0
    assert "2 new of 2 point record(s) ingested" in capsys.readouterr().err
    assert ResultCache().stats()["records"] == 0
    with RunLake(lake_path) as lake:
        counts = lake.counts()
    assert counts["runs"] == 2
    assert set(counts) == {"runs", "metrics"}
