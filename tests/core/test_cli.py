"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import experiments
from repro.runner.api import clear_memory_cache
from repro.runner.config import ExperimentConfig


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "em3d" in out
    assert "Tables" in out


def test_run_requires_experiments(capsys):
    assert main(["run"]) == 2


def test_run_unknown_experiment_fails_fast(capsys):
    assert main(["run", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'nope'" in err


def test_run_validation(capsys):
    assert main(["run", "validation", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "Section 4.1" in out


def test_run_serves_second_invocation_from_cache(capsys):
    assert main(["run", "validation", "--jobs", "1"]) == 0
    capsys.readouterr()
    clear_memory_cache()
    assert main(["run", "validation", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "(cache hit)" in out
    assert "[PASS]" in out


def test_run_json_export(tmp_path, capsys):
    out_path = tmp_path / "records.json"
    assert main(["run", "validation", "--jobs", "1", "--json", str(out_path)]) == 0
    records = json.loads(out_path.read_text())
    assert len(records) == 1
    assert records[0]["exp_id"] == "validation"
    assert records[0]["checks"]
    assert all(ok for _n, ok, _d in records[0]["checks"])
    assert records[0]["cache_key"]


def test_run_failing_checks_exit_code(monkeypatch, capsys):
    spec = experiments.ExperimentSpec(
        id="fake_fail",
        title="always fails",
        paper_tables="none",
        description="test-only",
        runner=lambda config: {"v": 1},
        config=ExperimentConfig(exp_id="fake_fail"),
        shape=lambda r: [("doomed", False, "intentional")],
        paper={"n/a": 0},
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_fail", spec)
    clear_memory_cache()
    assert main(["run", "fake_fail", "--jobs", "1", "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] doomed" in out
    clear_memory_cache()


def test_cache_ls_and_clear(capsys):
    assert main(["cache", "ls"]) == 0
    assert "cache empty" in capsys.readouterr().out
    assert main(["run", "validation", "--jobs", "1"]) == 0
    capsys.readouterr()
    assert main(["cache", "ls"]) == 0
    assert "validation" in capsys.readouterr().out
    assert main(["cache", "clear"]) == 0
    assert "removed 1 records" in capsys.readouterr().out
    assert main(["cache", "ls"]) == 0
    assert "cache empty" in capsys.readouterr().out


def test_parser_rejects_no_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_run_flags():
    args = build_parser().parse_args(
        ["run", "--all", "--jobs", "4", "--json", "out.json", "--force"]
    )
    assert args.all and args.jobs == 4 and args.json == "out.json"
    assert args.force and not args.no_cache


# -- memory-model and machine-preset flags -----------------------------------


def test_check_unknown_consistency_is_usage_error(capsys):
    """A typo'd model name must be a did-you-mean usage error (exit 2),
    never a silently skipped shape (exit 0)."""
    assert main(["check", "--litmus", "--consistency", "tsso"]) == 2
    err = capsys.readouterr().err
    assert "unknown consistency 'tsso'" in err
    assert "did you mean 'tso'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--litmus", "--litmus-seeds", "0"], "--litmus-seeds must be >= 1, got 0"),
        (["--matrix", "--litmus-seeds", "0"], "--litmus-seeds must be >= 1, got 0"),
        (["--stress", "0"], "--stress must be >= 1, got 0"),
        (["--stress", "20", "--nprocs", "3"], "--nprocs must be even and >= 2, got 3"),
        (["--stress", "20", "--nprocs", "0"], "--nprocs must be even and >= 2, got 0"),
    ],
    ids=["litmus-no-seeds", "matrix-no-seeds", "stress-no-ops", "odd-nprocs",
         "no-nprocs"],
)
def test_check_refuses_a_budget_that_checks_nothing(capsys, argv, message):
    """A gate that ran nothing must not pass: usage error, nothing run."""
    assert main(["check", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "[PASS]" not in captured.out


@pytest.mark.parametrize("command", ["run", "trace"])
def test_unknown_experiment_suggests(capsys, command):
    assert main([command, "em3"]) == 2
    assert "did you mean 'em3d'" in capsys.readouterr().err


def test_run_unknown_consistency_is_usage_error(capsys):
    assert main(["run", "validation", "--consistency", "sq"]) == 2
    err = capsys.readouterr().err
    assert "unknown consistency 'sq'" in err


def test_run_unknown_preset_is_usage_error(capsys):
    assert main(["run", "validation", "--preset", "multicre"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'multicore'" in err


def test_check_litmus_under_tso(capsys):
    assert main(["check", "--litmus", "--consistency", "tso",
                 "--litmus-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "consistency=tso" in out
    assert "relaxed outcome observed (permitted)" in out  # sb shape
    assert "[FAIL]" not in out


def test_check_matrix(capsys):
    assert main(["check", "--matrix", "--litmus-seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "litmus matrix: 27 cells" in out
    assert "[FAIL]" not in out


def test_run_with_preset_and_consistency(capsys):
    assert main(["run", "validation", "--jobs", "1", "--no-cache",
                 "--preset", "multicore", "--consistency", "tso"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
