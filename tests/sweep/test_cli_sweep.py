"""`repro sweep` CLI: exit codes, artifacts, flag plumbing."""

import json

import pytest

from repro.cli import main
from repro.core import experiments
from repro.runner.api import clear_memory_cache
from repro.runner.config import ExperimentConfig
from repro.specs import library


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memory_cache()
    yield
    clear_memory_cache()


def put_sweep_spec(monkeypatch, tmp_path, text):
    """Put one YAML sweep spec on the search path ($REPRO_SPECS_DIR)."""
    sweeps = tmp_path / "specs" / "sweeps"
    sweeps.mkdir(parents=True)
    (sweeps / "spec.yaml").write_text(text, encoding="utf-8")
    monkeypatch.setenv("REPRO_SPECS_DIR", str(tmp_path / "specs"))


@pytest.fixture
def tiny_sweep(monkeypatch, tmp_path):
    """A shipped-looking spec over a fake experiment (jobs=1 only)."""

    def runner(config):
        return {"value": 10.0 * config.procs}

    exp = experiments.ExperimentSpec(
        id="fake_cli", title="f", paper_tables="none", description="d",
        runner=runner, config=ExperimentConfig(exp_id="fake_cli"),
        shape=lambda r: [("ran", True, "ok")], paper={},
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_cli", exp)
    monkeypatch.setitem(
        library.EXTRA_METRICS, "cli-value", {"value": lambda s: s["data"]["value"]}
    )
    monkeypatch.setitem(library.CHECKS, "cli-grows", lambda result: [
        ("grows", result.series("value")[1] == [10.0, 20.0, 30.0], "ok"),
    ])
    put_sweep_spec(monkeypatch, tmp_path, """\
kind: sweep
id: tiny
experiment: fake_cli
axes:
  - {axis: procs, values: [1, 2, 3]}
metrics: [value]
extra_metrics: cli-value
checks: cli-grows
""")


def test_sweep_unknown_spec_exits_2(capsys):
    assert main(["sweep", "nosuchsweep"]) == 2
    err = capsys.readouterr().err
    assert "unknown sweep 'nosuchsweep'" in err
    assert "available:" in err


def test_sweep_suggests_close_spec_name(capsys):
    assert main(["sweep", "em3d-latencey"]) == 2
    assert "did you mean 'em3d-latency'" in capsys.readouterr().err


def test_sweep_malformed_axis_flag_exits_2(tiny_sweep, capsys):
    assert main(["sweep", "tiny", "--axis", "procs"]) == 2
    assert "expected name=" in capsys.readouterr().err


def test_sweep_unknown_axis_name_exits_2(tiny_sweep, capsys):
    assert main(["sweep", "tiny", "--jobs", "1",
                 "--axis", "prcs=1,2"]) == 2
    assert "unknown sweep axis 'prcs'" in capsys.readouterr().err


def test_sweep_success_prints_table_plot_and_checks(tiny_sweep, capsys):
    assert main(["sweep", "tiny", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "sweep tiny: fake_cli over procs=[1, 2, 3]" in out
    assert "value" in out  # table column
    assert "tiny: value vs procs" in out  # plot title
    assert "[PASS] grows: ok" in out
    assert "3 simulated, 0 cached" in out


def test_sweep_warm_rerun_serves_cache(tiny_sweep, capsys):
    assert main(["sweep", "tiny", "--jobs", "1"]) == 0
    capsys.readouterr()
    clear_memory_cache()
    assert main(["sweep", "tiny", "--jobs", "1"]) == 0
    assert "0 simulated, 3 cached" in capsys.readouterr().out


def test_sweep_axis_override_narrows_grid(tiny_sweep, capsys):
    # A 2-point series still satisfies the check? No — values differ.
    assert main(["sweep", "tiny", "--jobs", "1",
                 "--axis", "procs=1,2,3"]) == 0
    assert "3 simulated" in capsys.readouterr().out


def test_sweep_failing_checks_exit_1(tiny_sweep, capsys):
    # Narrowing the grid breaks the [10, 20, 30] expectation.
    assert main(["sweep", "tiny", "--jobs", "1",
                 "--axis", "procs=2,3"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] grows" in captured.out
    assert "sweep shape checks failed" in captured.err


def test_sweep_json_and_csv_artifacts(tiny_sweep, tmp_path, capsys):
    json_path = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "tiny", "--jobs", "1",
                 "--json", str(json_path), "--csv", str(csv_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert payload["spec_name"] == "tiny"
    assert [p["metrics"]["value"] for p in payload["points"]] == [
        10.0, 20.0, 30.0
    ]
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "procs,value"
    assert lines[1] == "1,10.0"


def test_sweep_glob_resolves_every_spec_before_any_runs(capsys):
    """An --axis that one spec of a --glob batch cannot take is a usage
    error before the first spec simulates anything."""
    from repro.runner.cache import ResultCache

    assert main(["sweep", "--glob", "specs/sweeps/*.yaml",
                 "--axis", "nodes_per_proc=10", "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    # em3d-cache, the first globbed spec, takes the axis but not as a
    # second one: its checks read one series.
    assert "sweep 'em3d-cache' has checks, which need a one-axis sweep" in err
    assert "[1/" not in err
    assert ResultCache().stats()["records"] == 0


def test_sweep_second_axis_on_a_checked_spec_exits_2_before_any_point(capsys):
    from repro.runner.cache import ResultCache

    assert main(["sweep", "em3d-latency", "--axis", "procs=2,4",
                 "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert (
        "sweep 'em3d-latency' has checks, which need a one-axis sweep; "
        "got axes ['net_latency', 'procs']"
    ) in err
    assert "[1/" not in err
    assert ResultCache().stats()["records"] == 0


def test_sweep_impossible_axis_value_exits_2_before_any_point(capsys):
    assert main(["sweep", "em3d-latency", "--axis", "procs=0",
                 "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert "num_processors must be >= 1, got 0" in err
    assert "[1/" not in err


def test_sweep_option_typo_exits_2_before_any_point(monkeypatch, tmp_path, capsys):
    """An ``options.*`` axis must name an option the experiment has."""
    exp = experiments.ExperimentSpec(
        id="fake_opt", title="f", paper_tables="none", description="d",
        runner=lambda config: {"value": 1.0},
        config=ExperimentConfig(exp_id="fake_opt", options=(("asynchronous", False),)),
        shape=lambda r: [("ran", True, "ok")], paper={},
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_opt", exp)
    monkeypatch.setitem(
        library.EXTRA_METRICS, "opt-value", {"value": lambda s: s["data"]["value"]}
    )
    put_sweep_spec(monkeypatch, tmp_path, """\
kind: sweep
id: opt
experiment: fake_opt
axes:
  - {axis: options.asynchronous, values: [false, true]}
metrics: [value]
extra_metrics: opt-value
""")
    assert main(["sweep", "opt", "--jobs", "1",
                 "--axis", "options.asynchronus=0"]) == 2
    err = capsys.readouterr().err
    assert "unknown fake_opt option 'asynchronus' (did you mean 'asynchronous'?)" in err
    assert "[1/" not in err


def test_sweep_help_lists_shared_flags(capsys):
    from repro.cli import build_parser

    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["sweep", "--help"])
    assert excinfo.value.code == 0
    assert "--resume" not in capsys.readouterr().out


def test_shared_flags_spelled_identically_across_commands():
    from repro.cli import build_parser

    parser = build_parser()
    for command in (["run", "x"], ["sweep", "x"]):
        args = parser.parse_args(command + ["--jobs", "3", "--force",
                                            "--no-cache", "--json", "o.json"])
        assert args.jobs == 3
        assert args.force is True
        assert args.no_cache is True
        assert args.json == "o.json"
    args = parser.parse_args(["trace", "em3d", "--force", "--no-cache"])
    assert args.force is True and args.no_cache is True
    args = parser.parse_args(["fidelity", "--json", "f.json"])
    assert args.json == "f.json"
