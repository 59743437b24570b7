"""Shared test fixtures."""

import pytest

from repro import sim


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the on-disk result cache at a per-test directory.

    Keeps test runs from reading or polluting a developer's
    ``.repro_cache/`` in the working directory.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
    yield


@pytest.fixture(autouse=True)
def _no_leaked_observer():
    """Every test ends with no tracer, checker or other observer
    installed; one that leaks fails, and does not poison later tests."""
    yield
    leaked = list(sim._OBSERVERS)
    sim._OBSERVERS.clear()
    assert not leaked, f"test left observers installed: {leaked}"
