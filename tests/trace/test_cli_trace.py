"""`repro trace` CLI: emission, cache attachment, re-render without re-run."""

import json

import pytest

from repro import api, cli
from repro.runner.api import resolve_config
from repro.runner.cache import ResultCache
from repro.trace.chrome import validate_chrome_trace
from repro.trace.timeline import render_timeline


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
    return directory


def test_trace_unknown_experiment_fails_fast(cache_dir, capsys):
    assert cli.main(["trace", "no-such-experiment"]) == 2
    assert "no-such-experiment" in capsys.readouterr().err


def test_trace_emits_valid_json_and_attaches_to_record(cache_dir, capsys):
    assert cli.main(["trace", "validation"]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out

    record = ResultCache().load(resolve_config("validation"))
    assert record is not None
    assert record.trace_path
    doc = json.loads(open(record.trace_path).read())
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"]["experiment"] == "validation"

    timeline = render_timeline(doc)
    assert "machine" in timeline and "Total" in timeline


def test_trace_rerenders_from_cache_without_resimulating(cache_dir, capsys):
    assert cli.main(["trace", "validation"]) == 0
    capsys.readouterr()
    assert cli.main(["trace", "validation"]) == 0
    out = capsys.readouterr().out
    assert "cached; --force re-simulates" in out


def test_trace_out_and_procs_options(cache_dir, tmp_path, capsys):
    out_path = tmp_path / "t.json"
    assert cli.main(
        ["trace", "validation", "--out", str(out_path), "--procs", "0", "--max-events", "500"]
    ) == 0
    doc = json.loads(out_path.read_text())
    assert validate_chrome_trace(doc) == []
    cycle_tids = {
        e["tid"]
        for e in doc["traceEvents"]
        if e["ph"] == "X" and e.get("cat") == "cycles"
    }
    assert cycle_tids <= {0}
    # A sliced trace must not be attached to the cached record.
    record = ResultCache().load(resolve_config("validation"))
    assert record is None


def _files(directory):
    return sorted(path for path in directory.rglob("*") if path.is_file())


def test_cache_clear_removes_the_trace_with_its_record(cache_dir, capsys):
    """A trace is part of its record's cache entry: `cache ls` counts
    its bytes and `cache clear` leaves no file behind."""
    assert cli.main(["trace", "validation"]) == 0
    files = _files(cache_dir)
    assert sorted(path.parent.name for path in files) == ["cache", "traces"]
    capsys.readouterr()
    assert cli.main(["cache", "ls"]) == 0
    total = sum(path.stat().st_size for path in files)
    assert f"1 records, {total} bytes total" in capsys.readouterr().out
    assert cli.main(["cache", "clear"]) == 0
    assert _files(cache_dir) == []


def test_relative_out_is_a_copy_never_looked_up(cache_dir, tmp_path, monkeypatch, capsys):
    """`--out t.json` in one directory is not recorded: a later plain
    trace in another directory renders the stored trace, not whatever
    file is called t.json there."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert cli.main(["trace", "validation", "--out", "t.json"]) == 0
    full = json.loads((tmp_path / "a" / "t.json").read_text())
    other = api.trace_for("validation", procs=[0], max_events=10).document
    assert render_timeline(other) != render_timeline(full)
    (tmp_path / "b" / "t.json").write_text(json.dumps(other))
    monkeypatch.chdir(tmp_path / "b")
    capsys.readouterr()
    assert cli.main(["trace", "validation"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(render_timeline(full) + "\n")
    assert "cached; --force re-simulates" in out
    assert "trace: t.json" not in out


def test_slice_never_replaces_the_stored_trace(cache_dir, capsys):
    """A --procs/--max-events slice without --out is rendered only; the
    next plain trace still serves the stored full one."""
    assert cli.main(["trace", "validation"]) == 0
    full = capsys.readouterr().out.split("\ntrace:")[0]
    assert cli.main(
        ["trace", "validation", "--procs", "0", "--max-events", "10"]
    ) == 0
    assert "\ntrace: not stored (" in capsys.readouterr().out
    assert cli.main(["trace", "validation"]) == 0
    out = capsys.readouterr().out
    assert "cached; --force re-simulates" in out
    assert out.split("\ntrace:")[0] == full


def test_parse_procs_accepts_ranges_and_lists():
    assert cli._parse_procs("0-3") == [0, 1, 2, 3]
    assert cli._parse_procs("0,2,5-6") == [0, 2, 5, 6]
    with pytest.raises(ValueError):
        cli._parse_procs(",")
